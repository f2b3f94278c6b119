module orderopt/benchmark

go 1.24

require orderopt v0.0.0

replace orderopt => ../
