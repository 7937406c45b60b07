package graph

// Test-only exports for the external graph_test package, whose preset
// graphs come from internal/gen (which imports graph).
var ReferenceSampleAverageDistance = referenceSampleAverageDistance
