"""Expected verdicts the benchmark checks the library against.

The TodoMVC reference is the paper's Table 1 (O'Connor & Wickstrom,
PLDI 2022), copied here by name so the check does not read the
library's own implementation registry: 20 implementations failed the
safety property, 23 passed.
"""

TABLE1_FAILING = frozenset({
    "angular-dart", "angular2", "angular2_es2015", "angularjs",
    "backbone_marionette", "canjs", "canjs_require", "dijon", "dojo",
    "duel", "elm", "jquery", "knockoutjs_require", "lavaca_require",
    "mithril", "polymer", "ractive", "reagent", "vanilla-es6", "vanillajs",
})

TABLE1_PASSING = frozenset({
    "angularjs_require", "aurelia", "backbone", "backbone_require",
    "binding-scala", "closure", "emberjs", "enyo_backbone", "exoskeleton",
    "js_of_ocaml", "jsblocks", "knockback", "knockoutjs", "kotlin-react",
    "react", "react-alt", "react-backbone", "riotjs", "scalajs-react",
    "typescript-angular", "typescript-backbone", "typescript-react", "vue",
})

#: Final verdict of a monitored egg-timer session: a broken tick is a
#: definite safety violation; a healthy countdown ends presumptively true.
FAULTY_SESSION_VERDICT = "DEFINITELY_FALSE"
HEALTHY_SESSION_VERDICT = "PROBABLY_TRUE"
