//go:build !amd64

package fixture

func kernel() int { return 2 }
