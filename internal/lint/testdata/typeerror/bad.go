package fixture

// Count returns a string where its signature promises an int.
func Count() int { return "one" }
