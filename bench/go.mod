module enmc/bench

go 1.22

require enmc v0.0.0

replace enmc => ../
