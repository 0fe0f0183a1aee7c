module stencilsched/bench

go 1.22

require stencilsched v0.0.0

replace stencilsched => ../
