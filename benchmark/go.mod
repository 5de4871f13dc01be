module etlopt/benchmark

go 1.22

require etlopt v0.0.0

replace etlopt => ../
