module semnids/bench

go 1.24

require semnids v0.0.0

replace semnids => ../
