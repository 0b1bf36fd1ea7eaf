module geostreams/benchmark

go 1.22

require geostreams v0.0.0

replace geostreams => ../
