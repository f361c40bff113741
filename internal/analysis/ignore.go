package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// IgnorePrefix introduces an escape-hatch pragma. The full form is
//
//	//mpmdvet:ignore <pass> <reason>
//
// placed either on the flagged line itself (trailing comment) or on the line
// directly above it. When the pragma trails a line inside a multi-line
// statement, it covers the whole statement's span: a diagnostic anchored on
// the first line of a wrapped call is suppressed by a pragma trailing any of
// its continuation lines. <pass> is one analyzer name or "all"; <reason> is
// mandatory — an ignore without a justification is itself reported. The
// driver counts every honored pragma in its summary, so exceptions stay
// visible instead of silently accumulating.
const IgnorePrefix = "//mpmdvet:ignore"

// ignoreDirective is one parsed pragma.
type ignoreDirective struct {
	pass   string // analyzer name or "all"
	reason string
	pos    token.Pos
	used   int // diagnostics suppressed by this directive
}

// IgnoreSet indexes every pragma of a package by file and line.
type IgnoreSet struct {
	fset *token.FileSet
	// byLine maps filename -> line -> directives declared on that line.
	byLine map[string]map[int][]*ignoreDirective
	order  []*ignoreDirective
}

// CollectIgnores scans the files' comments for //mpmdvet:ignore pragmas.
// Malformed pragmas (no pass name, or no reason) are returned as
// diagnostics under the pseudo-pass "mpmdvet" so they fail the build
// instead of silently not suppressing.
func CollectIgnores(fset *token.FileSet, files []*ast.File) (*IgnoreSet, []Diagnostic) {
	s := &IgnoreSet{fset: fset, byLine: map[string]map[int][]*ignoreDirective{}}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, IgnorePrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //mpmdvet:ignoreXYZ — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pass: "mpmdvet",
						Pos:  c.Pos(),
						Message: fmt.Sprintf("malformed ignore pragma: want %q <pass> <reason>, got %q",
							IgnorePrefix, text),
					})
					continue
				}
				d := &ignoreDirective{
					pass:   fields[0],
					reason: strings.Join(fields[1:], " "),
					pos:    c.Pos(),
				}
				pos := fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*ignoreDirective{}
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
				s.order = append(s.order, d)
			}
		}
		s.attachSpans(f)
	}
	return s, malformed
}

// attachSpans extends each of the file's directives over the line span of
// its enclosing simple statement, so a pragma trailing a continuation line
// of a multi-line statement suppresses diagnostics anchored anywhere in the
// statement. Only statements whose interior lines are genuinely their own
// text qualify (assignments, calls, returns, …) — block-shaped statements
// (if/for/switch bodies) would make a pragma on one line silence unrelated
// neighbours.
func (s *IgnoreSet) attachSpans(f *ast.File) {
	fname := s.fset.Position(f.Pos()).Filename
	lines := s.byLine[fname]
	if len(lines) == 0 {
		return
	}
	// Innermost statement (by byte position) whose line span covers each
	// pragma line. Tracking every statement kind and filtering afterwards
	// keeps a pragma inside a nested block (a func-lit body, an if body)
	// from attaching to the much wider statement that encloses the block.
	best := map[int]ast.Stmt{}
	ast.Inspect(f, func(n ast.Node) bool {
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		start := s.fset.Position(stmt.Pos()).Line
		end := s.fset.Position(stmt.End()).Line
		for line := range lines {
			if line < start || line > end {
				continue
			}
			b := best[line]
			if b == nil || stmt.Pos() > b.Pos() || (stmt.Pos() == b.Pos() && stmt.End() < b.End()) {
				best[line] = stmt
			}
		}
		return true
	})
	// Snapshot each pragma line's own directives before extending, so
	// overlapping spans cannot compound.
	orig := map[int][]*ignoreDirective{}
	for line := range best {
		orig[line] = append([]*ignoreDirective(nil), lines[line]...)
	}
	for line, stmt := range best {
		if !spanEligible(stmt) {
			continue
		}
		start := s.fset.Position(stmt.Pos()).Line
		end := s.fset.Position(stmt.End()).Line
		if start == end {
			continue
		}
		for l := start; l <= end; l++ {
			if l != line {
				lines[l] = append(lines[l], orig[line]...)
			}
		}
	}
}

// spanEligible reports whether a multi-line statement's interior lines all
// belong to the statement itself, as opposed to nested statements.
func spanEligible(stmt ast.Stmt) bool {
	switch stmt.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
		*ast.LabeledStmt, *ast.CaseClause, *ast.CommClause:
		return false
	}
	return true
}

// Match reports whether d is suppressed by a pragma on its line or the line
// above, and marks the pragma used.
func (s *IgnoreSet) Match(d Diagnostic) (reason string, ok bool) {
	pos := s.fset.Position(d.Pos)
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return "", false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, dir := range lines[line] {
			if dir.pass == d.Pass || dir.pass == "all" {
				dir.used++
				return dir.reason, true
			}
		}
	}
	return "", false
}

// Suppression records one diagnostic silenced by a pragma.
type Suppression struct {
	Pass     string
	Position string
	Reason   string
	Message  string
}

// Unused returns diagnostics for pragmas that suppressed nothing — a stale
// exception is reported so it cannot outlive the code it excused.
func (s *IgnoreSet) Unused() []Diagnostic {
	var out []Diagnostic
	for _, d := range s.order {
		if d.used == 0 {
			out = append(out, Diagnostic{
				Pass:    "mpmdvet",
				Pos:     d.pos,
				Message: fmt.Sprintf("unused ignore pragma for pass %q (%s): nothing was suppressed on this line, the next line, or the enclosing statement", d.pass, d.reason),
			})
		}
	}
	return out
}

// Filter splits diags into kept and suppressed according to the pragma set.
func (s *IgnoreSet) Filter(diags []Diagnostic) (kept []Diagnostic, suppressed []Suppression) {
	for _, d := range diags {
		if reason, ok := s.Match(d); ok {
			suppressed = append(suppressed, Suppression{
				Pass:     d.Pass,
				Position: s.fset.Position(d.Pos).String(),
				Reason:   reason,
				Message:  d.Message,
			})
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}
