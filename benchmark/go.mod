// The benchmark is a module of its own so that it never changes how the
// program itself is built; its module path sits under repro/ so that it
// may import repro/internal/..., and the replace points at the checkout.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
