package trace

// RandomRecords is randomRecords for the benchmarks of package trace_test.
var RandomRecords = randomRecords

// ReferenceParse and ReferenceParseV2 are the reference text and ACTB
// version-2 decoders, for the tests of package trace_test.
var ReferenceParse, ReferenceParseV2 = referenceParse, referenceParseV2
