module mascbgmp/benchmark

go 1.22

require mascbgmp v0.0.0

replace mascbgmp => ../
