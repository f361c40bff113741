package em3d

// ghostPlan precomputes, for one phase (one direction of the bipartite
// graph), which remote values each processor needs:
//
//   - lists[p]: the distinct remote refs processor p reads (ghost nodes);
//   - slot[p]: ref -> index into p's ghost value array;
//   - exports[src][p]: the local indices on src that p needs, in the order
//     they appear in p's ghost array region for src (bulk aggregation);
//   - importBase[p][src]: offset of src's region within p's ghost array.
//
// The plan is static because the graph is static; the paper's ghost and bulk
// variants likewise compute their caching structure once.
type ghostPlan struct {
	procs      int
	lists      [][]ref
	slot       []map[ref]int
	exports    [][][]int // exports[src][dst] -> local indices on src
	importBase [][]int   // importBase[dst][src] -> offset in dst's ghost array
	importLen  [][]int   // importLen[dst][src] -> region length
}

// buildGhostPlan analyses one phase's dependencies. deps[p][i] are the
// dependencies of processor p's node i; refs with pc != p are remote.
func buildGhostPlan(procs int, deps [][][]edge) *ghostPlan {
	gp := &ghostPlan{procs: procs}
	gp.lists = make([][]ref, procs)
	gp.slot = make([]map[ref]int, procs)
	gp.exports = make([][][]int, procs)
	gp.importBase = make([][]int, procs)
	gp.importLen = make([][]int, procs)
	for p := 0; p < procs; p++ {
		gp.slot[p] = make(map[ref]int)
		gp.exports[p] = make([][]int, procs)
		gp.importBase[p] = make([]int, procs)
		gp.importLen[p] = make([]int, procs)
	}
	// Group each destination's remote refs by source processor so the bulk
	// variant's regions are contiguous; iterate sources in order for
	// determinism.
	for dst := 0; dst < procs; dst++ {
		seen := make(map[ref]bool)
		bySrc := make([][]ref, procs)
		for i := range deps[dst] {
			for _, e := range deps[dst][i] {
				if e.from.pc == dst || seen[e.from] {
					continue
				}
				seen[e.from] = true
				bySrc[e.from.pc] = append(bySrc[e.from.pc], e.from)
			}
		}
		off := 0
		for src := 0; src < procs; src++ {
			gp.importBase[dst][src] = off
			gp.importLen[dst][src] = len(bySrc[src])
			for _, r := range bySrc[src] {
				gp.slot[dst][r] = off
				gp.lists[dst] = append(gp.lists[dst], r)
				gp.exports[src][dst] = append(gp.exports[src][dst], r.idx)
				off++
			}
		}
	}
	return gp
}

// ghostCount returns the number of ghost nodes processor p maintains.
func (gp *ghostPlan) ghostCount(p int) int { return len(gp.lists[p]) }
