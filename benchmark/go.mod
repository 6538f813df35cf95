module decomine/benchmark

go 1.22

require decomine v0.0.0

replace decomine => ../
