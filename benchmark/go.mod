// The benchmark is a module of its own so that it builds from its own
// build file; the module path sits under autocheck/ so that Go's
// internal-package rule lets it import autocheck/internal/...
module autocheck/benchmark

go 1.24

require autocheck v0.0.0

replace autocheck => ../
