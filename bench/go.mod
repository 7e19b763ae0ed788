module seuss/bench

go 1.22

require seuss v0.0.0

replace seuss => ../
