module github.com/tabula-db/tabula/bench

go 1.22

require github.com/tabula-db/tabula v0.0.0

replace github.com/tabula-db/tabula => ../
