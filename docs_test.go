package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/eval"
)

// docFiles returns every markdown file the docs CI job guards: the repo-root
// *.md set plus everything under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	root, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, root...)
	err = filepath.WalkDir("docs", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("only %d markdown files found: %v", len(files), files)
	}
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingAnchors returns the GitHub-style anchor slugs of every heading in a
// markdown document.
func headingAnchors(content string) map[string]bool {
	anchors := map[string]bool{}
	nonSlug := regexp.MustCompile(`[^a-z0-9 \-]`)
	inFence := false
	for _, line := range strings.Split(content, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(line, "#"))
		slug := strings.ToLower(text)
		slug = nonSlug.ReplaceAllString(slug, "")
		slug = strings.ReplaceAll(slug, " ", "-")
		anchors[slug] = true
	}
	return anchors
}

// TestDocsLinksResolve is the markdown link check behind CI's docs job: every
// relative link in README/ROADMAP/CHANGES/PAPER(S)/docs/* must point at an
// existing file (and, when it carries a #fragment, at an existing heading).
// External links are only shape-checked — CI must not depend on the network.
func TestDocsLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		content := string(raw)
		for _, m := range mdLink.FindAllStringSubmatch(content, -1) {
			link := m[1]
			switch {
			case strings.HasPrefix(link, "http://"), strings.HasPrefix(link, "https://"):
				continue
			case strings.HasPrefix(link, "mailto:"):
				continue
			}
			target, frag, _ := strings.Cut(link, "#")
			var anchors map[string]bool
			if target == "" {
				anchors = headingAnchors(content)
			} else {
				path := filepath.Join(filepath.Dir(file), target)
				info, err := os.Stat(path)
				if err != nil {
					t.Errorf("%s: broken link %q (%v)", file, link, err)
					continue
				}
				if frag != "" {
					if info.IsDir() {
						t.Errorf("%s: link %q has a fragment but targets a directory", file, link)
						continue
					}
					tr, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					anchors = headingAnchors(string(tr))
				}
			}
			if frag != "" && !anchors[frag] {
				t.Errorf("%s: link %q: no heading for anchor %q", file, link, frag)
			}
		}
	}
}

// TestDocsCoreFilesExist pins the documentation layer's contract with the
// README and CI: the architecture and determinism documents exist, are
// linked from the README, and name the code that enforces each contract.
func TestDocsCoreFilesExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/DETERMINISM.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		if len(raw) < 1000 {
			t.Fatalf("%s is a stub (%d bytes)", doc, len(raw))
		}
		if !strings.Contains(string(readme), doc) {
			t.Errorf("README.md does not link %s", doc)
		}
	}
	det, err := os.ReadFile("docs/DETERMINISM.md")
	if err != nil {
		t.Fatal(err)
	}
	// Each contract section must cross-link the enforcing code, and that code
	// must exist — the docs stay tethered to the tree.
	for _, src := range []string{
		"internal/engine/engine.go",
		"internal/serve/registry.go",
		"internal/nn/batch.go",
		"internal/truenorth/event.go",
		"internal/truenorth/event_test.go",
		"internal/deploy/chip_event_test.go",
		"internal/engine/confidence.go",
		"internal/engine/waves.go",
		"internal/deploy/ensemble_test.go",
		"internal/serve/ensemble_test.go",
		"internal/serve/ring.go",
		"internal/serve/router.go",
		"internal/serve/snapshot.go",
		"cmd/tnload/loadgen.go",
		"internal/serve/router_test.go",
		"internal/serve/snapshot_test.go",
		"internal/serve/chaos_test.go",
		"internal/truenorth/faults.go",
		"internal/fault/fault.go",
		"internal/fault/chip.go",
		"internal/fault/analog.go",
		"internal/fault/fault_test.go",
		"internal/fault/fuzz_test.go",
		"internal/truenorth/noc.go",
		"internal/truenorth/anneal.go",
		"internal/truenorth/chip.go",
		"internal/deploy/chip.go",
		"internal/truenorth/placement_test.go",
		"internal/truenorth/placement_fuzz_test.go",
	} {
		if !strings.Contains(string(det), src) {
			t.Errorf("docs/DETERMINISM.md does not reference %s", src)
		}
		if _, err := os.Stat(src); err != nil {
			t.Errorf("docs/DETERMINISM.md references %s which does not exist", src)
		}
	}
}

// TestDocsNoStaleFileReferences guards against docs drifting from the tree:
// repo-relative file references in markdown prose (backtick-quoted paths and
// BENCH artifacts) must exist on disk. Change records are exempt: the change
// log (CHANGES.md) and numbered change requests (a first heading such as
// "# TITLE 12 · ...") name the files a change deletes or moves.
func TestDocsNoStaleFileReferences(t *testing.T) {
	pathRef := regexp.MustCompile("`((?:cmd|docs|internal|examples)/[A-Za-z0-9_/.-]+\\.(?:go|md)|BENCH_[A-Za-z0-9]+\\.json)`")
	changeRequest := regexp.MustCompile(`^# [A-Z]+ [0-9]+ ·`)
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if file == "CHANGES.md" || changeRequest.Match(raw) {
			continue
		}
		for _, m := range pathRef.FindAllStringSubmatch(string(raw), -1) {
			ref := m[1]
			if ref == "BENCH_CI.json" {
				continue // CI artifact, produced by the workflow, not committed
			}
			if _, err := os.Stat(ref); err != nil {
				t.Errorf("%s: references %s which does not exist", file, ref)
			}
		}
	}
}

// TestDocsExperimentIndexMatchesRepro keeps the experiment index in
// docs/ARCHITECTURE.md equal to the experiment table cmd/tnrepro runs
// (eval.Experiments): every documented id must be a table id, and every
// table id, aliases included, must be documented.
func TestDocsExperimentIndexMatchesRepro(t *testing.T) {
	raw, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	idRe := regexp.MustCompile("(?m)^\\| `([a-z0-9]+)`(?:/`([a-z0-9]+)`)?")
	documented := map[string]bool{}
	for _, m := range idRe.FindAllStringSubmatch(string(raw), -1) {
		documented[m[1]] = true
		if m[2] != "" {
			documented[m[2]] = true
		}
	}
	if len(documented) < 10 {
		t.Fatalf("experiment table parse found only %d ids: %v", len(documented), documented)
	}
	// The beyond-the-paper experiments that README and ARCHITECTURE.md
	// describe in prose must stay listed — a table rewrite must not drop
	// their rows.
	for _, id := range []string{"chipscale", "earlyexit", "faults"} {
		if !documented[id] {
			t.Errorf("experiment index is missing the %q row", id)
		}
	}
	inTable := map[string]bool{}
	for _, e := range eval.Experiments() {
		for _, id := range e.IDs {
			inTable[id] = true
			if !documented[id] {
				t.Errorf("experiment %q of eval.Experiments is missing from docs/ARCHITECTURE.md's index", id)
			}
		}
	}
	for id := range documented {
		if !inTable[id] {
			t.Errorf("docs/ARCHITECTURE.md lists experiment %q, which eval.Experiments does not have", id)
		}
	}
}
