module sdx/bench

go 1.22

require sdx v0.0.0

replace sdx => ../
