// Package cli is what the commands under cmd/ share: the flag rulebook —
// a Table of Rows, each a flag's default, usage, domain and the modes
// that read it, so that a value outside its domain or a flag outside its
// modes is refused by an error starting with its name, never replaced or
// ignored — the entry point, and the output.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/lab"
)

// Row is one flag.
type Row struct {
	Name string
	Def  any // int, uint64, float64, string, bool or time.Duration: the flag's type
	// Why says where a bound comes from, for the refusal to quote.
	Usage, Why string
	Min, Max   float64  // a number's domain, bounds included
	Zero       bool     // 0, the default, is in the domain too
	Words      []string // a string's domain; none makes the flag a file path
	On         uint     // the modes that read it, Modes.On's set; 0 is all
	// Field is the lab.Config field the flag writes, or its group
	// ("Qdisc" for "Qdisc.Kind"), or Validate's argument ("nHosts").
	Field string
}

// Inf is the Max of an unbounded number.
var Inf = math.Inf(1)

// MaxIters bounds an echo cell's measured round trips, for ItersWhy.
const (
	MaxIters = 100_000
	ItersWhy = "a cell allocates 32 B a round trip up front, for its RTT and window"
)

// Table is one command's flags.
type Table struct {
	Name string
	Rows []Row
	// Mode is the mode the parsed flags select, one bit of the rows' On
	// sets, and the phrase a refusal names it by; nil is one mode.
	Mode func(*Values) (uint, string)
	Args bool // positional arguments are admitted
}

// Modes names a command's modes: mode i is bit 1<<i of a row's On.
type Modes []string

// On is the set of the named modes; a name not in m panics.
func (m Modes) On(names ...string) uint {
	var on uint
	for _, n := range names {
		on |= 1 << slices.Index(m, n)
	}
	return on
}

// Of is the Mode that flag name's value selects, named "-name value".
func (m Modes) Of(name string) func(*Values) (uint, string) {
	return func(v *Values) (uint, string) {
		w := fmt.Sprint(v.get(name))
		if slices.Contains(m, w) {
			return m.On(w), "-" + name + " " + w
		}
		return 0, "" // outside the row's domain, which Parse reports first
	}
}

// Values are the parsed flags.
type Values struct{ fs *flag.FlagSet }

// Parse defines the table's flags, parses args and checks each flag set.
// After -h it prints the usage to w and returns nil values and error.
func (t *Table) Parse(args []string, w io.Writer) (*Values, error) {
	fs := flag.NewFlagSet(t.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, r := range t.Rows {
		switch d := r.Def.(type) {
		case int:
			fs.Int(r.Name, d, r.Usage)
		case uint64:
			fs.Uint64(r.Name, d, r.Usage)
		case float64:
			fs.Float64(r.Name, d, r.Usage)
		case string:
			fs.String(r.Name, d, r.Usage)
		case bool:
			fs.Bool(r.Name, d, r.Usage)
		case time.Duration:
			fs.Duration(r.Name, d, r.Usage)
		}
	}
	err := fs.Parse(args)
	switch {
	case err == flag.ErrHelp:
		fs.SetOutput(w)
		fs.PrintDefaults()
		return nil, nil
	case err == nil && fs.NArg() > 0 && !t.Args:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	v, mode, phrase := &Values{fs}, uint(0), ""
	if err == nil && t.Mode != nil {
		mode, phrase = t.Mode(v)
	}
	var off error
	fs.Visit(func(f *flag.Flag) {
		r := &t.Rows[slices.IndexFunc(t.Rows, func(r Row) bool { return r.Name == f.Name })]
		if e := r.Check(f.Value.(flag.Getter).Get()); err == nil {
			err = e
		}
		if r.On&mode == 0 && r.On != 0 && off == nil {
			off = fmt.Errorf("-%s does not apply to %s", f.Name, phrase)
		}
	})
	if err == nil {
		err = off
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Check refuses a value outside the row's domain, naming the flag.
func (r *Row) Check(v any) error {
	if x, ok := v.(string); ok {
		if r.Words == nil || slices.Contains(r.Words, x) {
			return nil
		}
		return fmt.Errorf("-%s %q: want one of %q", r.Name, x, r.Words)
	}
	n, _ := strconv.ParseFloat(fmt.Sprint(v), 64)
	if d, ok := v.(time.Duration); ok {
		n = float64(d)
	}
	if _, ok := v.(bool); ok || n >= r.Min && n <= r.Max || r.Zero && n == 0 { // NaN is in no domain
		return nil
	}
	return fmt.Errorf("-%s %v outside [%s, %s]%s", r.Name, v, r.Text(r.Min), r.Text(r.Max), strings.TrimSuffix(": "+r.Why, ": "))
}

// Text spells a number as the row's flag would take it.
func (r *Row) Text(n float64) string {
	if _, ok := r.Def.(time.Duration); ok {
		return time.Duration(n).String()
	}
	return strconv.FormatFloat(n, 'f', -1, 64)
}

// Config returns err prefixed with the flag that wrote the field a
// *lab.ConfigError refuses, or err itself (nil stays nil).
func (t *Table) Config(err error) error {
	var ce *lab.ConfigError
	if errors.As(err, &ce) {
		group, _, _ := strings.Cut(ce.Field, ".")
		for _, r := range t.Rows {
			if r.Field == ce.Field || r.Field == group {
				return fmt.Errorf("-%s: %w", r.Name, err)
			}
		}
	}
	return err
}

func (v *Values) get(name string) any { return v.fs.Lookup(name).Value.(flag.Getter).Get() }

func (v *Values) Int(name string) int                { return v.get(name).(int) }
func (v *Values) Uint64(name string) uint64          { return v.get(name).(uint64) }
func (v *Values) Float(name string) float64          { return v.get(name).(float64) }
func (v *Values) String(name string) string          { return v.get(name).(string) }
func (v *Values) Bool(name string) bool              { return v.get(name).(bool) }
func (v *Values) Duration(name string) time.Duration { return v.get(name).(time.Duration) }
func (v *Values) Args() []string                     { return v.fs.Args() }

// Main runs a command on the process's arguments and standard output,
// and exits 1 with its error.
func (t *Table) Main(run func([]string, io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, err)
		os.Exit(1)
	}
}

// Emit prints v as indented JSON, or else render's text.
func Emit(w io.Writer, asJSON bool, v any, render func() string) error {
	if !asJSON {
		_, err := io.WriteString(w, render())
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		_, err = fmt.Fprintln(w, string(b))
	}
	return err
}
