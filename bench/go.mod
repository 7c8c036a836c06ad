module lyra/bench

go 1.22

require lyra v0.0.0

replace lyra => ../
