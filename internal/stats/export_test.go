package stats

// The oracle of the external test package, which fits the gaps of
// simulated runs, reaches the sort-based reference and its corpus here.
var (
	ReferenceSummarizeFit = referenceSummarizeFit
	SummaryFitText        = summaryFitText
	OracleSamples         = oracleSamples
)
