module timebounds/benchmark

go 1.23

require timebounds v0.0.0

replace timebounds => ../
