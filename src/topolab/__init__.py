"""topolab: rank-based interacting particle systems, their kinetic limit, and the coupling between them."""
