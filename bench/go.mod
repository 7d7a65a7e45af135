module binetrees/bench

go 1.24

require binetrees v0.0.0

replace binetrees => ../
