module livesec/bench

go 1.22

require livesec v0.0.0

replace livesec => ../
