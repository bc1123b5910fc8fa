module txconflict/bench

go 1.24

require txconflict v0.0.0

replace txconflict => ../
