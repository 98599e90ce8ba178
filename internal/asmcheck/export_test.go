package asmcheck

// Exports for the external test package, which builds model images
// (modelimg imports asmcheck, so only asmcheck_test can import it).
var (
	CFGParity  = cfgParity
	CheckSeeds = fuzzSeeds
	RawProgram = rawProgram
)
