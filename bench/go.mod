module rangecube/bench

go 1.22

require rangecube v0.0.0

replace rangecube => ../
