package serve

import (
	"context"
	"sync"
	"testing"

	"repro/mine"
)

// The scheduler tests need exact control over run timing, so they use a
// registered stub miner whose behavior each test swaps in. The registry
// is process-global and Register panics on duplicates, so one delegating
// miner registers once and tests install their function under a mutex
// (those tests therefore must not run in parallel with each other).
var (
	testMinerOnce sync.Once
	testMinerMu   sync.Mutex
	testMinerFn   func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error)
)

type testMiner struct{}

func (testMiner) Name() string     { return "testminer" }
func (testMiner) Describe() string { return "controllable stub miner for scheduler tests" }

func (testMiner) Mine(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
	testMinerMu.Lock()
	fn := testMinerFn
	testMinerMu.Unlock()
	if fn == nil {
		return &mine.Result{Miner: "testminer"}, nil
	}
	return fn(ctx, host, opts)
}

// setTestMiner registers the stub (once) and installs fn for the
// duration of the test.
func setTestMiner(t *testing.T, fn func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error)) {
	t.Helper()
	testMinerOnce.Do(func() { mine.Register(testMiner{}) })
	testMinerMu.Lock()
	testMinerFn = fn
	testMinerMu.Unlock()
	t.Cleanup(func() {
		testMinerMu.Lock()
		testMinerFn = nil
		testMinerMu.Unlock()
	})
}

// stubPattern is a fixed single-edge pattern for stub results.
func stubPattern() *mine.Pattern {
	return &mine.Pattern{G: mine.FromEdges([]mine.Label{1, 2}, []mine.Edge{{U: 0, W: 1}})}
}

// tinyStoredGraph registers a minimal host graph in a fresh store.
func tinyStoredGraph(t *testing.T) *StoredGraph {
	t.Helper()
	g := mine.FromEdges([]mine.Label{1, 2, 1}, []mine.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	sg, _, err := NewStore(nil).Add(g, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	return sg
}
