package engine

// Internals the external test package (package engine_test) uses.
var (
	TestClassify = testClassify
	AlertSet     = alertSet
	StopAndCheck = stopAndCheck
)

// SetSweepPrune turns the analyzer's sweep prune, with its byte
// witness and the cache bypass that follows it, on or off; call it
// before the first packet reaches a shard.
func SetSweepPrune(e *Engine, on bool) { e.analyzer.DisableSweepPrune = !on }
