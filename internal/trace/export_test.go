package trace

// RandomLog and RandomTrace expose randomLog and randomTrace to the
// external benchmarks.
var (
	RandomLog   = randomLog
	RandomTrace = randomTrace
)
