package workload

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestImportBoundary holds the transport seam shut: among the package's
// non-test files, a stack is imported only by the one file that adapts it
// to the contract, so no other frame can name it.
func TestImportBoundary(t *testing.T) {
	owner := map[string]string{
		"repro/internal/tcp":  "tcp.go",
		"repro/internal/sock": "tcp.go",
		"repro/internal/rudp": "rudp.go",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			if want, ok := owner[path]; ok {
				seen[path] = true
				if name != want {
					t.Errorf("%s imports %s; only %s may", name, path, want)
				}
			}
		}
	}
	for path, want := range owner {
		if !seen[path] {
			t.Errorf("%s no longer imports %s: the boundary table is stale", want, path)
		}
	}
}

// TestConnSizeClasses keeps a connection end inside the allocator size
// class it had before the contract carried a port: ten thousand clients
// each hold one.
func TestConnSizeClasses(t *testing.T) {
	if n := unsafe.Sizeof(tcpConn{}); n > 128 {
		t.Errorf("tcpConn is %d bytes, want <= 128", n)
	}
	if n := unsafe.Sizeof(rudpConn{}); n > 112 {
		t.Errorf("rudpConn is %d bytes, want <= 112", n)
	}
}
