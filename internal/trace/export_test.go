package trace

// RandomLog exposes randomLog to the external benchmarks.
var RandomLog = randomLog
