package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// CodeSizeRow reports one component's size, mirroring Table 1's comparison
// of the Nexus-based and ThAM-based CC++ runtime implementations with this
// repository's equivalents.
type CodeSizeRow struct {
	Component string `json:"component"`
	GoLines   int    `json:"go_lines"`
	TestLines int    `json:"test_lines"`
	// PaperC/PaperH hold the original implementation's line counts when the
	// component corresponds to a Table 1 entry.
	PaperC int `json:"paper_c_lines"`
	PaperH int `json:"paper_h_lines"`
}

// moduleRoot locates the repository root from this source file's location.
func moduleRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// countGoLines counts non-blank lines in the package directory, split into
// implementation and test files.
func countGoLines(dir string) (impl, test int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		n := countFileLines(filepath.Join(dir, e.Name()))
		if strings.HasSuffix(e.Name(), "_test.go") {
			test += n
		} else {
			impl += n
		}
	}
	return impl, test
}

func countFileLines(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			n++
		}
	}
	return n
}

// RunCodeSize reproduces Table 1: the size of this repository's runtime
// components, with the paper's corresponding line counts alongside. The
// structural point of Table 1 — the lean ThAM-based runtime is two orders of
// magnitude smaller than Nexus — survives here in the extreme: the lean
// runtime is a few thousand lines, and what this repository keeps of Nexus is
// a cost profile (four constants of machine.Config behind core.Options.Nexus),
// so its row counts no Go at all.
func RunCodeSize() []CodeSizeRow {
	root := moduleRoot()
	row := func(component, rel string, paperC, paperH int) CodeSizeRow {
		impl, test := countGoLines(filepath.Join(root, rel))
		return CodeSizeRow{Component: component, GoLines: impl, TestLines: test, PaperC: paperC, PaperH: paperH}
	}
	return []CodeSizeRow{
		row("core (CC++ runtime)", "internal/core", 2682, 1346),
		row("tham", "internal/tham", 1155, 726),
		{Component: "nexus (a cost profile)", PaperC: 39226, PaperH: 6552},
		row("am (Active Messages)", "internal/am", 0, 0),
		row("threads package", "internal/threads", 0, 0),
		row("splitc runtime", "internal/splitc", 0, 0),
		row("machine model", "internal/machine", 0, 0),
		row("sim engine", "internal/sim", 0, 0),
	}
}

// FormatCodeSize renders Table 1.
func FormatCodeSize(rows []CodeSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: source-code size (this repo vs the paper's implementations)\n")
	fmt.Fprintf(&b, "%-24s | %8s %8s | %10s %10s\n", "component", "go", "tests", "paper .C", "paper .H")
	for _, r := range rows {
		pc, ph := "-", "-"
		if r.PaperC > 0 {
			pc, ph = fmt.Sprint(r.PaperC), fmt.Sprint(r.PaperH)
		}
		fmt.Fprintf(&b, "%-24s | %8d %8d | %10s %10s\n", r.Component, r.GoLines, r.TestLines, pc, ph)
	}
	fmt.Fprintf(&b, "(paper columns: Nexus v3.0 maps to the nexus row, here core.Options.Nexus; CC++ w/ThAM to core; ThAM to tham)\n")
	return b.String()
}
