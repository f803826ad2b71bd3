package trace

// RandomRecords is randomRecords for the benchmarks of package trace_test.
var RandomRecords = randomRecords
