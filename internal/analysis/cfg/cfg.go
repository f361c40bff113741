// Package cfg is the control-flow layer under mpmdvet's flow-sensitive
// passes: an intraprocedural basic-block CFG built from a function body's
// AST, a generic worklist fixpoint driver over it (fixpoint.go), and a
// must-hold lockset analysis with mutex-annotation parsing on top
// (lockset.go, annot.go).
//
// The graph flattens structured statements: a basic block holds simple
// statements and the condition/tag expressions decomposed out of if/for/
// switch, in execution order. Control constructs become edges — branch and
// join for if, a back edge for loops, one edge per clause for switch and
// select (plus a skip edge when there is no default), label-aware
// break/continue/goto, fallthrough. Statements that cannot complete
// (panic, os.Exit, runtime.Goexit) end their block with no successors, and
// a synthetic *Fall node marks falling off the closing brace, so exit-path
// checks (bufown's leak report) see exactly the real exits. An if whose
// condition is a bare `x.TryLock()` (or its negation) gets a synthetic
// *TryAcquired node at the head of the branch taken on success, which is how
// the must-hold lockset learns of an acquisition that is conditional.
package cfg

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks in creation order, which tracks source order closely enough
	// for deterministic reporting sweeps. Blocks[0] is the entry.
	Blocks []*Block
}

// Entry is the function's entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }

// Block is one straight-line run of flat nodes.
//
// A flat node is one of:
//   - a simple statement: AssignStmt, ExprStmt, SendStmt, IncDecStmt,
//     DeclStmt, GoStmt, DeferStmt, ReturnStmt, or the comm statement of a
//     select clause
//   - a condition/tag expression decomposed from if/for/switch
//   - a *ast.RangeStmt, standing for the evaluation of its X and the
//     per-iteration key/value bind — transfer functions must not recurse
//     into its Body (the body is its own blocks)
//   - a *ast.ForStmt with nil Cond, a marker for a condition-less loop
//     head — transfer functions must not recurse into it either
//   - the synthetic *Fall at a fall-off-the-end exit
//   - the synthetic *TryAcquired at the head of a TryLock's success branch
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// Fall is the synthetic flat node placed where control falls off the
// function's closing brace.
type Fall struct{ Brace token.Pos }

func (f *Fall) Pos() token.Pos { return f.Brace }
func (f *Fall) End() token.Pos { return f.Brace }

// TryAcquired is the synthetic flat node at the head of the branch that runs
// only when the TryLock (or TryRLock) call an if statement tested returned
// true. Call is that call, already emitted as the if's condition node. The
// builder matches by method name only; the lockset transfer confirms the
// receiver is a sync mutex.
type TryAcquired struct{ Call *ast.CallExpr }

func (t *TryAcquired) Pos() token.Pos { return t.Call.Pos() }
func (t *TryAcquired) End() token.Pos { return t.Call.End() }

// tryLockCond matches an if condition of the form `x.TryLock()`,
// `x.TryRLock()` or the negation of one, returning the call and whether it
// is negated. Compound conditions are not matched: the lock is then simply
// not known to be held (a must-hold set errs that way).
func tryLockCond(cond ast.Expr) (call *ast.CallExpr, negated bool) {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		cond = ast.Unparen(u.X)
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "TryLock" && sel.Sel.Name != "TryRLock") {
		return nil, false
	}
	return call, negated
}

// New builds the CFG of a function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.cur = b.newBlock()
	b.stmtList(body.List)
	if b.cur != nil {
		b.emit(&Fall{Brace: body.Rbrace})
	}
	return b.g
}

// breakFrame is one enclosing breakable construct (for/switch/select).
type breakFrame struct {
	label  string
	target *Block
}

// contFrame is one enclosing loop's continue target.
type contFrame struct {
	label  string
	target *Block
}

type builder struct {
	g   *Graph
	cur *Block // nil while the current point is unreachable

	breaks []breakFrame // innermost last; loops, switches, selects
	conts  []contFrame  // innermost last; loops only

	// fallNext is the next clause block while lowering a switch clause
	// body — the fallthrough target. Saved/restored around nested clauses.
	fallNext *Block

	// gotos land on the block registered for their label; forward gotos
	// are patched once the label is seen.
	labelBlocks  map[string]*Block
	pendingGotos map[string][]*Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) emit(n ast.Node) {
	if b.cur != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock begins a new block with an edge from the current one.
func (b *builder) startBlock() *Block {
	blk := b.newBlock()
	edge(b.cur, blk)
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the pending label when the statement
// is the target of a LabeledStmt (so break/continue lbl resolve to it).
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.EmptyStmt:

	case *ast.LabeledStmt:
		// A label is a join point: goto lands here, and the loop/switch
		// under it gets label-aware break/continue.
		lbl := b.startBlock()
		b.cur = lbl
		if b.labelBlocks == nil {
			b.labelBlocks = map[string]*Block{}
		}
		b.labelBlocks[s.Label.Name] = lbl
		for _, from := range b.pendingGotos[s.Label.Name] {
			edge(from, lbl)
		}
		delete(b.pendingGotos, s.Label.Name)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.emit(s)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ExprStmt:
		b.emit(s)
		if analysis.Terminates(s) { // panic / os.Exit / runtime.Goexit
			b.cur = nil
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.emit(s.Cond)
		condB := b.cur
		// A tested TryLock is held on exactly one of the two branches.
		tryCall, negated := tryLockCond(s.Cond)
		thenB := b.newBlock()
		edge(condB, thenB)
		b.cur = thenB
		if tryCall != nil && !negated {
			b.emit(&TryAcquired{Call: tryCall})
		}
		b.stmtList(s.Body.List)
		thenEnd := b.cur
		// The false branch is the else clause, or, when there is none and a
		// negated TryLock makes it the success branch, a block of its own.
		heldElse := tryCall != nil && negated
		elseEnd := condB
		if s.Else != nil || heldElse {
			elseB := b.newBlock()
			edge(condB, elseB)
			b.cur = elseB
			if heldElse {
				b.emit(&TryAcquired{Call: tryCall})
			}
			if s.Else != nil {
				b.stmt(s.Else, "")
			}
			elseEnd = b.cur
		}
		join := b.newBlock()
		edge(thenEnd, join)
		edge(elseEnd, join)
		b.setCur(join)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.startBlock()
		b.cur = head
		if s.Cond != nil {
			b.emit(s.Cond)
		} else {
			// Condition-less loop: emit the ForStmt itself as a flat marker
			// (transfers must not recurse into it) so passes can see an
			// unbounded loop with its entry state (blockhold).
			b.emit(s)
		}
		after := b.newBlock()
		if s.Cond != nil {
			edge(head, after)
		}
		body := b.newBlock()
		edge(head, body)
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.breaks = append(b.breaks, breakFrame{label, after})
		b.conts = append(b.conts, contFrame{label, cont})
		b.cur = body
		b.stmtList(s.Body.List)
		if post != nil {
			edge(b.cur, post)
			b.cur = post
			b.stmt(s.Post, "")
		}
		edge(b.cur, head) // back edge
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.conts = b.conts[:len(b.conts)-1]
		b.setCur(after)

	case *ast.RangeStmt:
		head := b.startBlock()
		b.cur = head
		b.emit(s) // stands for X evaluation + key/value bind
		after := b.newBlock()
		edge(head, after) // range may iterate zero times
		body := b.newBlock()
		edge(head, body)
		b.breaks = append(b.breaks, breakFrame{label, after})
		b.conts = append(b.conts, contFrame{label, head})
		b.cur = body
		b.stmtList(s.Body.List)
		edge(b.cur, head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.conts = b.conts[:len(b.conts)-1]
		b.setCur(after)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.emit(s.Tag)
		}
		b.switchClauses(s.Body, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.emit(s.Assign)
		b.switchClauses(s.Body, label, false)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	default:
		// Simple statements: AssignStmt, SendStmt, IncDecStmt, DeclStmt,
		// GoStmt, DeferStmt, and anything a future Go version adds.
		b.emit(s)
	}
}

// switchClauses lowers the clause list of a (type) switch. emitGuards emits
// the per-clause case expressions (value switches evaluate them).
func (b *builder) switchClauses(body *ast.BlockStmt, label string, emitGuards bool) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, breakFrame{label, after})
	var clauseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		blk := b.newBlock()
		edge(head, blk)
		clauseBlocks = append(clauseBlocks, blk)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		edge(head, after)
	}
	for i, cc := range clauses {
		b.cur = clauseBlocks[i]
		if emitGuards {
			for _, x := range cc.List {
				b.emit(x)
			}
		}
		var next *Block
		if i+1 < len(clauseBlocks) {
			next = clauseBlocks[i+1]
		}
		saved := b.fallNext
		b.fallNext = next
		b.stmtList(cc.Body)
		b.fallNext = saved
		edge(b.cur, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.setCur(after)
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, breakFrame{label, after})
	// A select blocks until some case is ready; only a default clause lets
	// control pass without communicating, and a case-less select{} blocks
	// forever — no edge out at all.
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.emit(cc.Comm)
		}
		b.stmtList(cc.Body)
		edge(b.cur, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.setCur(after)
}

func (b *builder) branch(s *ast.BranchStmt) {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		edge(b.cur, b.frameTarget(b.breaks, name))
	case token.CONTINUE:
		edge(b.cur, b.contTarget(name))
	case token.GOTO:
		if t, ok := b.labelBlocks[name]; ok {
			edge(b.cur, t)
		} else if b.cur != nil {
			if b.pendingGotos == nil {
				b.pendingGotos = map[string][]*Block{}
			}
			b.pendingGotos[name] = append(b.pendingGotos[name], b.cur)
		}
	case token.FALLTHROUGH:
		edge(b.cur, b.fallNext)
	}
	b.cur = nil
}

func (b *builder) frameTarget(frames []breakFrame, label string) *Block {
	if label == "" {
		if n := len(frames); n > 0 {
			return frames[n-1].target
		}
		return nil
	}
	for i := len(frames) - 1; i >= 0; i-- {
		if frames[i].label == label {
			return frames[i].target
		}
	}
	return nil
}

func (b *builder) contTarget(label string) *Block {
	if label == "" {
		if n := len(b.conts); n > 0 {
			return b.conts[n-1].target
		}
		return nil
	}
	for i := len(b.conts) - 1; i >= 0; i-- {
		if b.conts[i].label == label {
			return b.conts[i].target
		}
	}
	return nil
}

// setCur makes join the current block, or marks the point unreachable when
// nothing flows into it (every path out of the construct returned or
// jumped away).
func (b *builder) setCur(join *Block) {
	for _, other := range b.g.Blocks {
		for _, s := range other.Succs {
			if s == join {
				b.cur = join
				return
			}
		}
	}
	b.cur = nil
}
