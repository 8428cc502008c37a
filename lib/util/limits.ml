let max_n = 2000
let max_count = 10_000
let max_steps = 100_000
let max_population = 10_000
let max_generations = 100_000
