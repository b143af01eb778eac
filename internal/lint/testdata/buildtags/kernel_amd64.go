package fixture

func kernel() int { return 1 }
