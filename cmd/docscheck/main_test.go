package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out files (path → contents) under a fresh directory.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, body := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// memberTree is a module with one internal package whose types exercise
// every way a member resolves, and a root package aliasing one of them.
var memberTree = map[string]string{
	"internal/shape/shape.go": `package shape

import "sync"

type Base struct{ ID int }

func (b *Base) Reset() {}

type Scenario struct {
	*Base
	Hardware, Target string
}

func (s Scenario) Run() {}

type Gen interface {
	Name() string
}

type Locked struct{ *sync.Mutex }

func New() *Scenario { return nil }
`,
	"root.go": `package quanterference

import "example/internal/shape"

type Scenario = shape.Scenario
`,
}

func check(t *testing.T, doc string) []string {
	t.Helper()
	files := map[string]string{"README.md": doc}
	for k, v := range memberTree {
		files[k] = v
	}
	root := writeTree(t, files)
	idx, err := buildIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	return checkFile(root, filepath.Join(root, "README.md"), idx)
}

// TestMemberResolves covers each way a pkg.Type.Member reference resolves:
// a declared field, a method, an embedded field, a member promoted from an
// embedded type, an interface method, a member reached through the root
// package's alias, a type embedding one outside the index, and a third
// selector after a name that is not a type.
func TestMemberResolves(t *testing.T) {
	for _, ref := range []string{
		"shape.Scenario.Hardware",
		"shape.Scenario.Target",
		"shape.Scenario.Run",
		"shape.Scenario.Base",
		"shape.Scenario.ID",
		"shape.Scenario.Reset",
		"shape.Gen.Name",
		"quant.Scenario.Hardware",
		"quanterference.Scenario.Reset",
		"shape.Locked.Lock",
		"shape.New.Anything",
	} {
		if broken := check(t, "Set `"+ref+"` first.\n"); len(broken) != 0 {
			t.Errorf("%s: %v", ref, broken)
		}
	}
}

// TestUndeclaredMemberFails is the check's point: a doc naming a field its
// type does not declare (say, one a refactor deleted) is a broken reference,
// directly, through the root alias, and in a go block.
func TestUndeclaredMemberFails(t *testing.T) {
	for _, doc := range []string{
		"Set `shape.Scenario.Layout` first.\n",
		"Set `quant.Scenario.Layout` first.\n",
		"```go\ns := shape.Scenario{}\n_ = shape.Scenario.Layout\n```\n",
		"Call `shape.Gen.Prepare(fs)`.\n",
	} {
		broken := check(t, doc)
		if len(broken) != 1 || !strings.Contains(broken[0], "unknown identifier") {
			t.Errorf("%q: broken = %v, want one unknown identifier", doc, broken)
		}
	}
}

// TestUnknownNameFails keeps the two-part check: a name the package does
// not declare is broken, while other qualifiers and history files are not
// checked.
func TestUnknownNameFails(t *testing.T) {
	if broken := check(t, "Use `shape.Topology`.\n"); len(broken) != 1 {
		t.Errorf("shape.Topology: broken = %v, want one", broken)
	}
	if broken := check(t, "Use `strings.Builder.Grow` and `cfg.shape.Nope`.\n"); len(broken) != 0 {
		t.Errorf("unchecked qualifiers reported: %v", broken)
	}
}

// layerFiles is a module whose Layering block lists internal/base above
// internal/top: top imports base, its subpackage top/sub imports top, and a
// test file of base may import top.
func layerFiles() map[string]string {
	return map[string]string{
		"ARCHITECTURE.md": "# Architecture\n\n## Layering\n\n```\nLayer 0\n  internal/base   the root\n" +
			"Layer 1\n  internal/top    builds on base\n```\n\n## Next\n\n```\n  internal/ghost\n```\n",
		"internal/base/base.go":        "package base\n",
		"internal/base/base_test.go":   "package base\n\nimport _ \"example/internal/top\"\n",
		"internal/top/top.go":          "package top\n\nimport (\n\t\"strings\"\n\n\t\"example/internal/base\"\n)\n",
		"internal/top/sub/sub.go":      "package sub\n\nimport _ \"example/internal/top\"\n",
		"internal/base/testdata/x.go":  "package x\n",
		"internal/top/sub/sub_test.go": "package sub\n",
	}
}

func checkLayerTree(t *testing.T, files map[string]string) []string {
	t.Helper()
	broken, err := checkLayers(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	return broken
}

// TestLayersFollowImports: a tree whose imports follow the list passes; a
// subpackage shares its parent's place, test files and testdata are not
// checked, and only the Layering section's block is read.
func TestLayersFollowImports(t *testing.T) {
	if broken := checkLayerTree(t, layerFiles()); len(broken) != 0 {
		t.Fatalf("broken = %v, want none", broken)
	}
	files := layerFiles()
	delete(files, "ARCHITECTURE.md")
	if broken := checkLayerTree(t, files); len(broken) != 0 {
		t.Fatalf("without a Layering block: broken = %v, want none", broken)
	}
}

// TestLayerViolationFails: a non-test import of a package listed below the
// importer is reported.
func TestLayerViolationFails(t *testing.T) {
	files := layerFiles()
	files["internal/base/base.go"] = "package base\n\nimport _ \"example/internal/top/sub\"\n"
	broken := checkLayerTree(t, files)
	if len(broken) != 1 || !strings.Contains(broken[0], "internal/base/base.go: imports internal/top/sub") {
		t.Fatalf("broken = %v, want base's import of top/sub", broken)
	}
}

// TestUnlistedPackageFails: an internal package the Layering block does not
// list is reported once, however many files it has.
func TestUnlistedPackageFails(t *testing.T) {
	files := layerFiles()
	files["internal/extra/a.go"] = "package extra\n"
	files["internal/extra/b.go"] = "package extra\n"
	broken := checkLayerTree(t, files)
	if len(broken) != 1 || !strings.Contains(broken[0], "internal/extra is missing") {
		t.Fatalf("broken = %v, want internal/extra reported missing", broken)
	}
}
