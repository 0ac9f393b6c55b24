module prefsky/benchmark

go 1.24

require prefsky v0.0.0

replace prefsky => ../
