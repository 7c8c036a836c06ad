package dataplane

// CheckWireFlatAgreement lets the external test package, which may import
// internal/eval, run the byte-level wire oracle.
var CheckWireFlatAgreement = checkWireFlatAgreement
