package gen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/txdb"
)

// TestFixturesByteStable pins the bytes every generator produces at small
// sizes: SHA-256 over the SPG1 encodings of the host (or of each
// transaction graph) followed by the planted patterns, in return order. It
// covers hosts with room for every planted copy and hosts that run out of
// free vertices and re-pick used ones (the 40-vertex host, GID 6–10 at
// scale 0.05, the DBLP host whose communities are too small to plant in),
// so a change to how injections pick vertices must keep every draw.
func TestFixturesByteStable(t *testing.T) {
	type fixture struct {
		name  string
		build func() []*graph.Graph
	}
	synthetic := func(name string, cfg gen.SyntheticConfig) fixture {
		return fixture{name, func() []*graph.Graph {
			g, larges := gen.Synthetic(cfg)
			return append([]*graph.Graph{g}, larges...)
		}}
	}
	var fixtures []fixture
	for gid := 1; gid <= 5; gid++ {
		for seed := 1; seed <= 3; seed++ {
			fixtures = append(fixtures, synthetic(fmt.Sprintf("gid%d-seed%d", gid, seed), gen.GIDConfig(gid, int64(seed))))
		}
	}
	for gid := 6; gid <= 10; gid++ {
		cfg := gen.GIDConfigLarge(gid, 1)
		cfg.N /= 20
		cfg.NumLabels /= 20
		cfg.Small.Count /= 20
		fixtures = append(fixtures, synthetic(fmt.Sprintf("gid%d-scale0.05", gid), cfg))
	}
	fixtures = append(fixtures,
		synthetic("tiny-reuse", gen.SyntheticConfig{
			N: 40, AvgDeg: 2, NumLabels: 6, Seed: 5,
			Large: gen.InjectSpec{NV: 12, Count: 3, Support: 2},
			Small: gen.InjectSpec{NV: 3, Count: 4, Support: 3},
		}),
		fixture{"synthetic-tx", func() []*graph.Graph {
			db, larges := txdb.SyntheticTx(txdb.SyntheticTxConfig{
				NumGraphs: 4, N: 60, AvgDeg: 3, NumLabels: 12, Seed: 2,
				Large: gen.InjectSpec{NV: 10, Count: 2},
				Small: gen.InjectSpec{NV: 3, Count: 4},
			})
			return append(append([]*graph.Graph(nil), db.Graphs...), larges...)
		}},
		fixture{"dblp", func() []*graph.Graph {
			g, pats := gen.DBLPLike(gen.DBLPConfig{Authors: 600, Communities: 10, Seed: 3})
			return append([]*graph.Graph{g}, pats...)
		}},
		fixture{"dblp-small-communities", func() []*graph.Graph {
			g, pats := gen.DBLPLike(gen.DBLPConfig{Authors: 300, Communities: 60, Seed: 4})
			return append([]*graph.Graph{g}, pats...)
		}},
		fixture{"callgraph", func() []*graph.Graph {
			g, motifs := gen.CallGraphLike(gen.CallGraphConfig{Seed: 5})
			return append([]*graph.Graph{g}, motifs...)
		}},
	)
	want := map[string]string{
		"gid1-seed1":             "e7deebda047c1f99eb8084e0262286afba09fe17df37d59b810ef749323956ff",
		"gid1-seed2":             "edcb0ec2691e089c67abb7887bddc3aeed20da0aaacd027c79af7a4addb172cd",
		"gid1-seed3":             "b5c89b93464c6c0577571da49d0d731c8e96c76db6c3c267cf3d100e434f1836",
		"gid2-seed1":             "6cb836ad6b51891e0dc2d41250728a72c98af3dbd630274f6005e7c6ed8f2ad5",
		"gid2-seed2":             "5036e221eedbe83abad1105f1783d6be9313121dd2b26d35b09599f5288264ab",
		"gid2-seed3":             "040f068ea9bc62ee23d6a7f304ecd8e6a42de986c9efb2bc0b6c0b1057f85463",
		"gid3-seed1":             "371c61e164172b779acdca9512229abb45cbc90ef9d7ea1329fc4501314a34a1",
		"gid3-seed2":             "c419423593c4953e939b960332c365525ff8aa6e3905f9cdb555ebd5ea190d74",
		"gid3-seed3":             "e11206e94b33ac78c78ffa61ac5d51f3384f5ef1ee49b25951e41afa6b80cc13",
		"gid4-seed1":             "465099e0535fcbf41b7838e5903940dd64938b28740a9f6fd35ee13729e091bc",
		"gid4-seed2":             "f54e2fc1bf17c6801dd4268705b7e3cc64a1a246573424e8a0145f6ccd3fc34f",
		"gid4-seed3":             "25b1320f72226f0c801c98f1ebb8362d6ab4cf1fc97ae5eb964639d72fc1b511",
		"gid5-seed1":             "febe38d33cdfba82362bdbe1aadfe1e072b37c3e69a1c2beede4e4c871ad4955",
		"gid5-seed2":             "2415d5a282ecc10d149fba6caf463c5a7f87b342e443507ea62286dd90e6dbf1",
		"gid5-seed3":             "a27f3d6a69ef1380fe2bf3e4fdd7bc6d6f2305bca28fec5de2f71f29e527288b",
		"gid6-scale0.05":         "4f84c630ca5534f03f159f12f2a95141d071989aad1588730206b3b7a18eae49",
		"gid7-scale0.05":         "c5016d01fda7f638039b770bb0806b4bd67b7b5b8a82547431115aefe5705423",
		"gid8-scale0.05":         "02022a03515642edb9f75e47413ee57b53840d142c152386e8260cee298b5b28",
		"gid9-scale0.05":         "83876631a0ad4b9ba3f6bfeca0dedf34023fa62a3032421843bf2d56ca9df28e",
		"gid10-scale0.05":        "eceea7f254cc8b7b923b7618796a2ec8f7ad29acf0d2721b702ee5c00d5a1259",
		"tiny-reuse":             "693a3f5080979675dddb2625de3ee1b7b2675edf480f5d35a86255ae7770d368",
		"synthetic-tx":           "f08f5774d46cdd487c5000390e3f075ba9e5111ef2233032cb9d9b914f3295e6",
		"dblp":                   "43f11f5b65b7cb0c3368eec461fddca19f10662d67fc3b7db321140dc283a1ad",
		"dblp-small-communities": "a03eccc6a2c3d093da8da8f4f82264e01dac21f7617802ebbdbeb6887e8e1f5c",
		"callgraph":              "98afd3c0e61c2bdee866c7c73fcd0d302654cfcd85114cb66d29b260cc0af525",
	}
	for _, f := range fixtures {
		h := sha256.New()
		for _, g := range f.build() {
			h.Write(g.AppendBinary(nil))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[f.name] {
			t.Errorf("%s: digest %s, want %s", f.name, got, want[f.name])
		}
	}
}
