package text

// Test-only exports for the external text_test package, whose preset
// graphs come from internal/gen (which imports text).
var ReferenceBuildIndex = referenceBuildIndex
