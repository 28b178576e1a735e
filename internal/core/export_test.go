package core

// SyntheticLog lets the external test package build syntheticLog's logs.
var SyntheticLog = syntheticLog
