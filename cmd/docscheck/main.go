// Command docscheck validates the repository's markdown documentation:
// every relative link target must exist on disk, every internal/... package
// or file path mentioned in a document must exist in the tree, and every
// package-qualified exported identifier (pkg.Name) in an inline code span or
// a fenced go block must name something the package declares, so docs
// cannot silently rot as code moves or is deleted.
//
// An identifier resolves when it names a top-level declaration, a method or
// a _test.go name of the internal package with that name, or of the root
// package under either "quant" or "quanterference". Names qualified by
// anything else (the standard library, local variables) are not checked,
// and neither are lower-case names, which in prose are metric and file
// names rather than Go identifiers. CHANGES.md (history), ROADMAP.md and
// any document holding an open task item "- [ ]" (proposals) may name code
// that is gone or not yet written, so their identifiers are not checked
// either.
//
// Usage:
//
//	docscheck [root]
//
// root defaults to the current directory. Exits non-zero listing every
// broken reference.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links: [text](target).
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// pathRe matches internal/... path references in prose or code spans.
var pathRe = regexp.MustCompile(`\binternal/[A-Za-z0-9_/.-]+`)

// codeSpanRe matches an inline code span on one line.
var codeSpanRe = regexp.MustCompile("`([^`]+)`")

// identRe matches a package-qualified exported identifier. The qualifier
// must not itself follow a dot, so a field chain like cfg.core.Name is not
// read as core.Name.
var identRe = regexp.MustCompile(`(?:^|[^.\w])([a-z][a-z0-9]*)\.([A-Z]\w*)`)

// unchecked names the documents whose identifiers are not checked: history
// and proposals.
var unchecked = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}

// openTaskRe matches an open markdown task item, which marks a document as a
// proposal whose identifiers are not checked.
var openTaskRe = regexp.MustCompile(`(?m)^\s*[-*] \[ \]`)

// declIndex maps a package name to the names its files declare.
type declIndex map[string]map[string]bool

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	idx, err := buildIndex(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	var broken []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "out" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		broken = append(broken, checkFile(root, path, idx)...)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if len(broken) > 0 {
		for _, b := range broken {
			fmt.Fprintln(os.Stderr, b)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d broken reference(s)\n", len(broken))
		os.Exit(1)
	}
	fmt.Println("docscheck: all markdown references resolve")
}

// buildIndex parses every Go file of the internal packages and the root
// package, recording each file's top-level names under its package name
// (an external test package counts as the package it tests). The root
// package is indexed under both names the docs use for it.
func buildIndex(root string) (declIndex, error) {
	idx := declIndex{}
	fset := token.NewFileSet()
	addDir := func(dir string, keys ...string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if len(keys) == 0 {
				keys = []string{strings.TrimSuffix(f.Name.Name, "_test")}
			}
			for _, k := range keys {
				if idx[k] == nil {
					idx[k] = map[string]bool{}
				}
				declaredNames(f, idx[k])
			}
		}
		return nil
	}
	if err := addDir(root, "quant", "quanterference"); err != nil {
		return nil, err
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		return addDir(path)
	})
	return idx, err
}

// declaredNames adds every top-level function, method, type, variable and
// constant name of f to names.
func declaredNames(f *ast.File, names map[string]bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
}

// unknownIdents returns every pkg.Name in text whose package idx knows but
// whose name that package does not declare.
func unknownIdents(text string, idx declIndex) []string {
	var out []string
	for _, m := range identRe.FindAllStringSubmatch(text, -1) {
		if names, ok := idx[m[1]]; ok && !names[m[2]] {
			out = append(out, m[1]+"."+m[2])
		}
	}
	return out
}

// checkFile returns a diagnostic line for every unresolvable reference in
// one markdown file.
func checkFile(root, path string, idx declIndex) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	checkIdents := !unchecked[filepath.Base(path)] && !openTaskRe.Match(data)
	var broken []string
	lines := strings.Split(string(data), "\n")
	inFence, goFence := false, false
	for i, line := range lines {
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			goFence = inFence && strings.TrimSpace(strings.TrimPrefix(trimmed, "```")) == "go"
			continue
		}
		if checkIdents {
			var code []string
			if goFence {
				code = []string{line}
			} else if !inFence {
				for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
					code = append(code, m[1])
				}
			}
			for _, c := range code {
				for _, ref := range unknownIdents(c, idx) {
					broken = append(broken, fmt.Sprintf("%s:%d: unknown identifier %q", path, i+1, ref))
				}
			}
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if skipLink(target) {
				continue
			}
			if frag := strings.IndexByte(target, '#'); frag >= 0 {
				target = target[:frag]
			}
			if target == "" {
				continue // pure fragment link within the same document
			}
			// Relative links resolve against the document's directory.
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				broken = append(broken, fmt.Sprintf("%s:%d: broken link %q", path, i+1, m[1]))
			}
		}
		if inFence {
			// Fenced blocks hold example output and hypothetical layouts;
			// only check path references in prose and inline code.
			continue
		}
		for _, ref := range pathRe.FindAllString(line, -1) {
			ref = strings.TrimRight(ref, ".,;:")
			if strings.Contains(ref, "...") {
				continue // wildcard like internal/... is a pattern, not a path
			}
			if _, err := os.Stat(filepath.Join(root, ref)); err != nil {
				broken = append(broken, fmt.Sprintf("%s:%d: missing path %q", path, i+1, ref))
			}
		}
	}
	return broken
}

// skipLink reports whether a link target is outside docscheck's scope:
// absolute URLs, mail links, and in-page anchors.
func skipLink(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}
