"""Exact verification and classification of equivariant holomorphic
embeddings of the su(1,1) symmetric space into the su(p,p) one."""
