package atm

// CellsReassembled returns how many cells the driver has handed to a
// reassembler, for the conservation tests in package atm_test.
func (d *Driver) CellsReassembled() int64 { return d.reassembled }
