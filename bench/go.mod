module skyserver/bench

go 1.24

require skyserver v0.0.0

replace skyserver => ../
