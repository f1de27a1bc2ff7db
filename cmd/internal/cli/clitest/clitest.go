// Package clitest checks a command's cli.Table from its tests: a table of
// invocations with the refusal each must make, and FuzzFlags' body.
package clitest

import (
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
)

// Case is one invocation and what its refusal starts with: "-name", or
// the flag package's whole message; no Flag means the invocation runs.
type Case struct {
	Args []string
	Flag string
}

// Check runs every case.
func Check(t *testing.T, run func([]string, io.Writer) error, cases []Case) {
	t.Helper()
	for _, c := range cases {
		switch err := run(c.Args, io.Discard); {
		case err == nil && c.Flag != "":
			t.Errorf("%q ran, want a refusal starting with %s", c.Args, c.Flag)
		case err != nil && (c.Flag == "" || !regexp.MustCompile("^"+regexp.QuoteMeta(c.Flag)+"([ :]|$)").MatchString(err.Error())):
			t.Errorf("%q: %v, want a refusal starting with %q", c.Args, err, c.Flag)
		}
	}
}

// Fuzz is FuzzFlags' body. Each byte pair of data adds a -name=value
// token: a row, or a flag the table lacks, at a hostile value (0, -1,
// NaN, ±huge), a bound or one past it, a word, or s; a path row gets a
// fresh or a missing directory. In-domain values above caps are clamped
// to them, and rows every mode reads start at their cap. The run must
// complete, or be refused by an error naming a flag the vector sets. The
// seeds are each row alone at each value, after each value of the modes.
func Fuzz(f *testing.F, tab *cli.Table, run func([]string, io.Writer) error, caps map[string]float64, modes ...string) {
	prefixes := [][]byte{nil}
	for i, r := range tab.Rows {
		if err := r.Check(r.Def); err != nil {
			f.Fatalf("the default is outside the domain: %v", err)
		}
		for j := 0; slices.Contains(modes, r.Name) && j < len(values(r, "", "")); j++ {
			prefixes = append(prefixes, []byte{byte(i), byte(j)})
		}
	}
	for _, p := range prefixes {
		for i, r := range tab.Rows {
			for j := range values(r, "", "") {
				f.Add(append(slices.Clip(p), byte(i), byte(j)), "")
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, s string) {
		args := vector(tab, data, s, t.TempDir(), caps)
		if err := run(args, io.Discard); err != nil && !slices.ContainsFunc(args, func(a string) bool {
			name, _, _ := strings.Cut(a[1:], "=")
			return regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`).MatchString(err.Error())
		}) {
			t.Errorf("%q: %v: names no flag the vector sets", args, err)
		}
	})
}

// vector turns fuzz input into an argument vector (see Fuzz). It starts at
// the cap of every row all modes read whose default is above its cap.
func vector(tab *cli.Table, data []byte, s, dir string, caps map[string]float64) []string {
	var args []string
	for _, r := range tab.Rows {
		if def, _ := strconv.ParseFloat(fmt.Sprint(r.Def), 64); r.On == 0 && caps[r.Name] > 0 && def > caps[r.Name] {
			args = append(args, "-"+r.Name+"="+r.Text(caps[r.Name]))
		}
	}
	for ; len(data) >= 2; data = data[2:] {
		i := int(data[0]) % (len(tab.Rows) + 1)
		if i == len(tab.Rows) {
			args = append(args, "-nosuch="+s)
			continue
		}
		r := tab.Rows[i]
		vs := values(r, s, dir)
		v := vs[int(data[1])%len(vs)]
		if n, err := strconv.ParseFloat(v, 64); err == nil && caps[r.Name] > 0 && n > caps[r.Name] && n <= r.Max {
			v = r.Text(caps[r.Name])
		}
		args = append(args, "-"+r.Name+"="+v)
	}
	return args
}

func values(r cli.Row, s, dir string) []string {
	switch r.Def.(type) {
	case bool:
		return []string{"true", "false", s}
	case string:
		if r.Words == nil {
			return []string{filepath.Join(dir, "f"), filepath.Join(dir, "missing", "f")}
		}
		return append(slices.Clip(r.Words), s)
	}
	return []string{"0", "-1", "NaN", "1e300", "-1e300", "9223372036854775807",
		r.Text(r.Min), r.Text(r.Max), r.Text(r.Min - 1), r.Text(r.Max + 1), s}
}
