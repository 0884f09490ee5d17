// The benchmark is a module of its own so that it builds from its own
// directory; the path keeps it inside repro's internal/ visibility tree.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
