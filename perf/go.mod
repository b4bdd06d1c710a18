module pet/perf

go 1.22

require pet v0.0.0

replace pet => ../
