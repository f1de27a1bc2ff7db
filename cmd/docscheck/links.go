package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// A docs/data/ file holds what a document moved out of its own body —
// raw runs, an audit, a change's long form — so a link to one that does
// not resolve loses the fact it stood for.
var (
	markdownLink = regexp.MustCompile(`\]\(([^)\s#]+)`)
	dataPath     = regexp.MustCompile(`docs/data/[\w-]+(?:/[\w-]+)*\.\w+`)
)

// checkDataLinks fails on each docs/data/ file doc names that does not
// exist. doc is read from path: a Markdown link target resolves against
// path's directory, a bare docs/data/ path against root.
func checkDataLinks(doc, path, root string) error {
	data := filepath.Join(root, "docs", "data") + string(filepath.Separator)
	var broken []string
	check := func(target string) {
		if _, err := os.Stat(target); err != nil {
			broken = append(broken, target)
		}
	}
	for _, m := range markdownLink.FindAllStringSubmatch(doc, -1) {
		if t := filepath.Join(filepath.Dir(path), m[1]); strings.HasPrefix(t, data) {
			check(t)
		}
	}
	for _, p := range dataPath.FindAllString(doc, -1) {
		check(filepath.Join(root, p))
	}
	if len(broken) > 0 {
		return fmt.Errorf("docs/data/ links that do not resolve: %s", strings.Join(broken, ", "))
	}
	return nil
}
