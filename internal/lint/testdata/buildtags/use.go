package fixture

func Use() int { return kernel() }
