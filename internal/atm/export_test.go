package atm

// CellsReassembled returns how many cells the driver has handed to a
// reassembler, for the conservation tests in package atm_test.
func (d *Driver) CellsReassembled() int64 { return d.reassembled }

// TxUndelivered returns how many committed cells the adapter's transmit
// fibre holds short of the far end — neither delivered nor, on a cut
// fibre, staged with the coordinator — for the conservation tests.
func (a *Adapter) TxUndelivered() int { return a.tx.undelivered() }

// TxUndelivered is Adapter.TxUndelivered for a switch port's egress.
func (p *Port) TxUndelivered() int { return p.tx.undelivered() }

func (t *transmitter) undelivered() int {
	if t.cut != nil {
		return 0 // staged at launch; the records left only count occupancy
	}
	return t.q.len()
}
