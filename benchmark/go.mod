module lstore/benchmark

go 1.24

require lstore v0.0.0

replace lstore => ../
