package bench

// paperRef holds the paper's measured values for side-by-side printing.
type paperRef struct {
	cc string // CC++ total (µs) as reported in Table 4
	sc string // Split-C total (µs)
}

// paperTable4 is Table 4 of the paper (totals, µs).
var paperTable4 = map[string]paperRef{
	"0-Word Simple":               {cc: "67", sc: "-"},
	"0-Word":                      {cc: "77", sc: "-"},
	"1-Word":                      {cc: "94", sc: "-"},
	"2-Word":                      {cc: "95", sc: "-"},
	"0-Word Threaded":             {cc: "87", sc: "-"},
	"0-Word Atomic":               {cc: "88", sc: "56"},
	"GP 2-Word R/W":               {cc: "92", sc: "57"},
	"BulkWrite 40-Word":           {cc: "154", sc: "74"},
	"BulkRead 40-Word":            {cc: "177", sc: "75"},
	"Prefetch 20-Word (per elem)": {cc: "35.4", sc: "12.1"},
}

// paperEM3DRatio is Figure 5's CC++/Split-C per-edge ratio at 100% remote
// edges, per variant (base converges to ~2, ghost to ~2.5, bulk to ~1).
var paperEM3DRatio = map[string]float64{
	"base":  2.0,
	"ghost": 2.5,
	"bulk":  1.1,
}

// paperWaterGap is Figure 6's CC++/Split-C execution-time ratios.
var paperWaterGap = map[string]float64{
	"atomic/64":    2.6,
	"atomic/512":   5.6,
	"prefetch/64":  2.5, // 0.10 / 0.04
	"prefetch/512": 3.5,
}

// paperLUGap is Figure 6's cc-lu / sc-lu ratio.
const paperLUGap = 3.6

// paperNexus summarizes §6's "Comparison with CC++/Nexus": CC++/ThAM is 5-35x
// faster than CC++/Nexus depending on the communication/computation ratio.
var paperNexus = map[string]string{
	"em3d-base":  "35x",
	"em3d-ghost": "29x",
	"em3d-bulk":  "10x",
	"water":      "16-22x (64 mol); 5-6x (512 mol)",
	"lu":         "5-6x",
}
