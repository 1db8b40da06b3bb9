package experiments

import (
	"context"
	"fmt"

	"repro/internal/gen"
	"repro/internal/miner/origami"
	"repro/internal/pattern"
	"repro/internal/spidermine"
	"repro/internal/txdb"
)

// TxConfig sizes the transaction-setting comparison. The paper's setting
// (§5.1.2): 10 ER graphs × 500 vertices, average degree 5, 65 labels, 5
// large 30-vertex patterns injected everywhere; Fig. 15 adds 100 small
// 5-vertex patterns. Below full scale every injection spec shrinks with
// the graph so the pattern budget keeps fitting.
type TxConfig struct {
	NumGraphs  int
	N          int
	NumLabels  int
	LargeNV    int
	LargeCount int
	SmallN     int // number of small injected patterns (0 for Fig. 14, 100 for Fig. 15)
	Seed       int64
}

func paperTxConfig(smallN int, seed int64, scale float64) TxConfig {
	cfg := TxConfig{
		NumGraphs:  10,
		N:          scaled(500, scale),
		NumLabels:  scaled(65, scale),
		LargeNV:    30,
		LargeCount: 5,
		SmallN:     smallN,
		Seed:       seed,
	}
	if scale < 1 {
		cfg.LargeNV = scaled(30, scale*2) // shrink less than the graph: stay "large"
		cfg.LargeCount = 3
		cfg.SmallN = scaled(smallN, scale)
	}
	return cfg
}

// Fig14 reproduces the transaction-setting comparison with few small
// patterns: SpiderMine vs ORIGAMI pattern-size histograms.
func Fig14(ctx context.Context, seed int64, scale float64, workers int) *Report {
	return txCompare(ctx, workers, "fig14", "transaction setting, 5 large patterns, few small (vs ORIGAMI)",
		paperTxConfig(0, seed, scale),
		"expected shape: both find large patterns; ORIGAMI also returns a mix of small/medium ones")
}

// Fig15 reproduces the comparison after injecting 100 small patterns:
// ORIGAMI's result collapses toward small maximal patterns while
// SpiderMine keeps the large ones.
func Fig15(ctx context.Context, seed int64, scale float64, workers int) *Report {
	return txCompare(ctx, workers, "fig15", "transaction setting, +100 small patterns (vs ORIGAMI)",
		paperTxConfig(100, seed, scale),
		"expected shape: ORIGAMI mass shifts to small sizes, missing large patterns; SpiderMine unaffected")
}

func txCompare(ctx context.Context, workers int, id, title string, cfg TxConfig, note string) *Report {
	db, _ := txdb.SyntheticTx(txdb.SyntheticTxConfig{
		NumGraphs: cfg.NumGraphs,
		N:         cfg.N,
		AvgDeg:    5,
		NumLabels: cfg.NumLabels,
		Large:     gen.InjectSpec{NV: cfg.LargeNV, Count: cfg.LargeCount, Support: 1},
		Small:     gen.InjectSpec{NV: 5, Count: cfg.SmallN, Support: 1},
		Seed:      cfg.Seed,
	})
	smRes, _ := spidermine.MineTransactionsContext(ctx, db, spidermine.Config{
		MinSupport: cfg.NumGraphs / 2, K: 10, Dmax: 6, Seed: cfg.Seed,
		Workers: workers,
		// Transaction merging needs the same union structure at σ distinct
		// sites; extra randomized restarts of Stages II-III (a §4.2.1
		// suggestion) substantially raise the hit rate at negligible cost
		// since Stage I is shared.
		Restarts: 3,
	})
	smHist := SizeHistogram(smRes.Patterns)

	or, _ := origami.MineContext(ctx, db, origami.Config{
		MinSupport: cfg.NumGraphs / 2, Samples: 60, Seed: cfg.Seed,
	})
	orPats := make([]*pattern.Pattern, 0, len(or))
	for _, r := range or {
		orPats = append(orPats, r.P)
	}
	orHist := SizeHistogram(orPats)

	header, rows := histogramRows([]string{"SpiderMine", "ORIGAMI"},
		[]map[int]int{smHist, orHist})
	return &Report{
		ID:     id,
		Title:  title,
		Header: header,
		Rows:   rows,
		Notes: []string{note,
			fmt.Sprintf("database: %d graphs x %d vertices, %d labels, %d small patterns",
				cfg.NumGraphs, cfg.N, cfg.NumLabels, cfg.SmallN)},
	}
}
