// Command docscheck validates the repository's markdown documentation:
// every relative link target must exist on disk, every internal/... package
// or file path mentioned in a document must exist in the tree, and every
// package-qualified exported identifier (pkg.Name) in an inline code span or
// a fenced go block must name something the package declares, so docs
// cannot silently rot as code moves or is deleted.
//
// An identifier resolves when it names a top-level declaration, a method or
// a _test.go name of the internal package with that name, or of the root
// package under either "quant" or "quanterference". A third selector,
// pkg.Type.Member, must then name a field or method of that type: its own,
// an embedded field, or one promoted from an embedded type, following
// type aliases (the root package's quant.Scenario is core.Scenario). A type
// that embeds or aliases a type outside the index (the standard library)
// accepts any member, since its full member set is unknown. Names qualified
// by anything else (the standard library, local variables) are not checked,
// and neither are lower-case names right after the package, which in prose
// are metric and file names rather than Go identifiers. CHANGES.md
// (history), ROADMAP.md and any document holding an open task item "- [ ]"
// (proposals) may name code that is gone or not yet written, so their
// identifiers are not checked either.
//
// The Layering block of ARCHITECTURE.md (the fenced block under its
// "## Layering" heading) is checked against the code: each line whose first
// word is an internal/ path lists that package, and its subpackages share
// its place. Every internal package must be listed, and no non-test file of
// an internal package may import an internal package listed below its own.
//
// Usage:
//
//	docscheck [root]
//
// root defaults to the current directory. Exits non-zero listing every
// broken reference.
package main

import (
	"errors"
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

// identRe matches a package-qualified exported identifier and an optional
// member selector after it. The qualifier must not itself follow a dot, so
// a field chain like cfg.core.Name is not read as core.Name.
var identRe = regexp.MustCompile(`(?:^|[^.\w])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)

// unchecked names the documents whose identifiers are not checked: history
// and proposals.
var unchecked = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}

// openTaskRe matches an open markdown task item, which marks a document as a
// proposal whose identifiers are not checked.
var openTaskRe = regexp.MustCompile(`(?m)^\s*[-*] \[ \]`)

// declIndex maps a package name to what its files declare.
type declIndex map[string]*pkgDecls

// pkgDecls is one package's top-level names and, per declared type, its
// members.
type pkgDecls struct {
	names map[string]bool
	types map[string]*typeDecl
}

// typeDecl is one named type: the fields and methods it declares itself,
// and the types whose members it also has — those it embeds, or the one
// it aliases.
type typeDecl struct {
	members map[string]bool
	embeds  []typeRef
}

// typeRef names a type; pkg is the selector's qualifier, or "" for a type
// of the same package.
type typeRef struct{ pkg, name string }

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
	if err == nil {
		var layers []string
		layers, err = checkLayers(root)
		broken = append(broken, layers...)
	}
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
	fmt.Println("docscheck: all markdown references resolve and imports follow the layers")
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
					idx[k] = &pkgDecls{names: map[string]bool{}, types: map[string]*typeDecl{}}
				}
				idx[k].add(f)
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

// add records every top-level function, method, type, variable and
// constant name of f, and the members of each type f declares.
func (p *pkgDecls) add(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			p.names[d.Name.Name] = true
			if d.Recv != nil && len(d.Recv.List) == 1 {
				if recv, ok := typeName(d.Recv.List[0].Type); ok {
					p.typ(recv.name).members[d.Name.Name] = true
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					p.typ(s.Name.Name).addType(s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				}
			}
		}
	}
}

// typ returns the record of the named type, creating it; methods may be
// declared before their type.
func (p *pkgDecls) typ(name string) *typeDecl {
	t := p.types[name]
	if t == nil {
		t = &typeDecl{members: map[string]bool{}}
		p.types[name] = t
	}
	return t
}

// addType records an alias target, or the fields, interface methods and
// embedded types of a struct or interface type.
func (t *typeDecl) addType(s *ast.TypeSpec) {
	if ref, ok := typeName(s.Type); ok && s.Assign.IsValid() {
		t.embeds = append(t.embeds, ref)
		return
	}
	var fields *ast.FieldList
	switch u := s.Type.(type) {
	case *ast.StructType:
		fields = u.Fields
	case *ast.InterfaceType:
		fields = u.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) > 0 {
			for _, n := range f.Names {
				t.members[n.Name] = true
			}
			continue
		}
		// An embedded field is named after its type.
		if ref, ok := typeName(f.Type); ok {
			t.members[ref.name] = true
			t.embeds = append(t.embeds, ref)
		}
	}
}

// typeName resolves a type expression naming a (possibly pointer,
// possibly generic) named type to its reference.
func typeName(e ast.Expr) (typeRef, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return typeRef{name: x.Name}, true
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok {
			return typeRef{pkg: pkg.Name, name: x.Sel.Name}, true
		}
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return typeRef{}, false
}

// hasMember reports whether type ref, seen from package pkg, has a field
// or method named m: its own, or one reached through an alias or an
// embedded type. A type the index does not hold (the standard library, a
// predeclared type) may have any member.
func (idx declIndex) hasMember(pkg string, ref typeRef, m string, seen map[typeRef]bool) bool {
	if ref.pkg != "" {
		pkg = ref.pkg
	}
	key := typeRef{pkg, ref.name}
	if seen[key] {
		return false
	}
	seen[key] = true
	p := idx[pkg]
	if p == nil || p.types[ref.name] == nil {
		return true
	}
	t := p.types[ref.name]
	if t.members[m] {
		return true
	}
	for _, e := range t.embeds {
		if idx.hasMember(pkg, e, m, seen) {
			return true
		}
	}
	return false
}

// unknownIdents returns every pkg.Name in text whose package idx knows but
// whose name that package does not declare, and every pkg.Type.Member
// whose type has no such field or method.
func unknownIdents(text string, idx declIndex) []string {
	var out []string
	for _, m := range identRe.FindAllStringSubmatch(text, -1) {
		p, ok := idx[m[1]]
		if !ok {
			continue
		}
		switch {
		case !p.names[m[2]]:
			out = append(out, m[1]+"."+m[2])
		case m[3] != "" && p.types[m[2]] != nil &&
			!idx.hasMember(m[1], typeRef{name: m[2]}, m[3], map[typeRef]bool{}):
			out = append(out, m[1]+"."+m[2]+"."+m[3])
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

// layersDoc is the document whose Layering block orders the packages.
const layersDoc = "ARCHITECTURE.md"

// layerOrder returns the internal/ paths the Layering block of layersDoc
// lists, top first, or nil when root has no such document or block.
func layerOrder(root string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, layersDoc))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var order []string
	inSection, inFence := false, false
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case inFence && strings.HasPrefix(trimmed, "```"):
			return order, nil
		case inFence:
			if f := strings.Fields(trimmed); len(f) > 0 && strings.HasPrefix(f[0], "internal/") {
				order = append(order, strings.TrimRight(f[0], ",/"))
			}
		case strings.HasPrefix(line, "## "):
			inSection = trimmed == "## Layering"
		case inSection && strings.HasPrefix(trimmed, "```"):
			inFence = true
		}
	}
	return order, nil
}

// checkLayers returns a diagnostic for every internal package the Layering
// block does not list, and for every non-test import of an internal
// package listed below the importer. Without a Layering block it checks
// nothing.
func checkLayers(root string) ([]string, error) {
	order, err := layerOrder(root)
	if err != nil || order == nil {
		return nil, err
	}
	// place is the list position of pkg's longest listed prefix, -1 when
	// none is listed.
	place := func(pkg string) int {
		at := -1
		for i, p := range order {
			if (pkg == p || strings.HasPrefix(pkg, p+"/")) && (at < 0 || len(p) > len(order[at])) {
				at = i
			}
		}
		return at
	}
	var broken []string
	unlisted := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := rel[:strings.LastIndexByte(rel, '/')]
		from := place(pkg)
		if from < 0 {
			if !unlisted[pkg] {
				unlisted[pkg] = true
				broken = append(broken, fmt.Sprintf("%s: package %s is missing from the Layering list", layersDoc, pkg))
			}
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			// Only this module's own internal packages are importable here,
			// so the path after "/internal/" names the target.
			if _, sub, ok := strings.Cut(strings.Trim(imp.Path.Value, `"`), "/internal/"); ok {
				if target := "internal/" + sub; place(target) > from {
					broken = append(broken, fmt.Sprintf("%s: imports %s, which %s lists below %s", rel, target, layersDoc, pkg))
				}
			}
		}
		return nil
	})
	return broken, err
}
