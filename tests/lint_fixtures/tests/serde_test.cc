// Round-trips Serde<Covered> (src/serde.h).
