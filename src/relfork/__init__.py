"""Verification workbench for relation algebras and fork algebras.

Finite proper relation algebras with exhaustive or sampled axiom
checking, countable fork-algebra models driven by injective pairing
functions, and concrete pairings whose fixpoints (plain, tree
controlled, projection controlled or sequence controlled) are pinned to
a chosen finite set.

Submodules load on first use: ``import relfork`` loads none of them,
and ``relfork.NAME`` (or ``from relfork import NAME``) imports only the
submodule that defines NAME.  Each CLI run is a fresh process, so it
pays only for the modules its command reaches.
"""

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "btree": """BT BTC Bin HOLE Hole NIL Nil TreeSyntaxError format_tree
        is_tree node_count parse_tree strict_subtrees substitute tree_map variants""",
    "errors": "RelforkError",
    "node": "Scope",
    "seqs": "PI RHO Seq SeqSyntaxError format_seq ll_rel parse_seq seq_concat",
    "relcore": """AlgebraModel Classification FiniteRelation RelationError classify
        direct_product full_pra generate_subalgebra ideal_elements load_model
        model_from_dict model_to_dict power save_model""",
    "terms": """AXIOM_TEXTS And CheckReport Complement Compose Const Converse Eq
        EvalError Fork Implies Leq Meet NoForkStructureError Not Or ParseError
        UnboundVariableError Union Var check_formula check_suite
        compile_formula compile_term eval_formula eval_term free_variables parse
        parse_formula parse_term pretty""",
    "forkmodel": """CfaReport ForkBackend LazyRelation NilControlError
        PairingFunction UndecidableCompositionError cfa_axiom_check
        complement_rel compose_rel conjugate converse_rel fix_members
        fix_proj_members fix_seq_members fix_tree_members fork meet_rel
        projections transport underline union_rel window""",
    "constructions": """ConstructionError ConstructionLayout build_from_config
        build_star_basic build_star_proj build_star_seq build_star_tree
        cantor_pair cantor_unpair layout_report""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule that defines ``name``, or is ``name``, on first use."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's machinery binds the submodule in this namespace,
    # and unlike importlib.import_module it shows under -X importtime.
    __import__(f"{__name__}.{module}")
    value = globals()[module] if name == module else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
