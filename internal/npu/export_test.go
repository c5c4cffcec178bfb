package npu

// RandomProgram exposes the random program builder to the external test
// package, which compiles zoo instances and so cannot live in npu itself.
var RandomProgram = randomProgram
