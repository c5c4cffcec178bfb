package compiler

// StreamDigest exposes the golden digest to the external test package.
var StreamDigest = streamDigest
