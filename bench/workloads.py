"""The four benchmark workloads: their generated inputs and command lines.

Each workload turns the benchmark seed into input files under its own
directory and into the `phonesim` command lines that run them. The program
sees only those files, loaded through `load_scenario` and `load_script`
exactly as a user's files would be. Every path is relative to the checkout
root, which is the working directory of every child interpreter, so run
records (which quote policy specs) do not depend on where the checkout is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path("src/phonesim/data")
SCENARIO_PACK = DATA / "scenarios"
SCRIPTS = DATA / "scripts"

# Words the generated emails and searches are built from. The last few match
# subjects of the bundled distractor catalog, so searches in `long_noisy`
# hit the noise mail that fills the inbox.
WORDS = ("invoice", "meeting", "draft", "quarterly", "report", "lease", "trip",
         "receipt", "agenda", "photos", "contract", "budget", "schedule",
         "renewal", "sale", "briefing", "miles", "statement", "storage")
BAD_FOLDER = "spam"          # not one of EmailApp's folders: the move must roll back


@dataclass
class Workload:
    name: str
    run_argv: list[str]                   # `phonesim run ...`, without --runs/--out
    runs: int                             # episodes per scenario and cell
    episodes: int                         # episodes one full run records
    report: bool = False                  # follow the run with `phonesim report`
    check_argvs: list[list[str]] = field(default_factory=list)
    all_success: bool = False             # every record must succeed
    required_goals: tuple[str, ...] = ()  # goals that must hold in every record
    llm_config: Path | None = None        # where to point the policies at the fake endpoint

    def setup_argv(self, out: str) -> list[str]:
        """The workload's own run line with `--runs 0`: parse, validate and
        write manifests, but run no episode."""
        return self.run_argv + ["--runs", "0", "--out", out]

    def main_argvs(self, out: str) -> list[list[str]]:
        argvs = [self.run_argv + ["--runs", str(self.runs), "--out", out]]
        if self.report:
            argvs.append(["report", "--records", out, "--runs", str(self.runs)])
        return argvs


def _dump_steps(path: Path, steps: list[dict]) -> None:
    """One flow-style mapping per line keeps the scripts short and quick to parse."""
    lines = ["steps:"]
    lines += [f"  - {json.dumps(step, sort_keys=True)}" for step in steps]
    path.write_text("\n".join(lines) + "\n", "utf-8")


def _email_id(k: int) -> str:
    # The format Store.next_id gives the k-th record of the EmailApp store.
    return f"E{k:03d}"


# ----------------------------------------------------------------------
# sweep

def sweep(inputs: Path, seed: int) -> Workload:
    runs = 8
    scenarios = sorted(SCENARIO_PACK.glob("*.yaml")) + sorted(SCENARIO_PACK.glob("*.yml"))
    noise, fail = ("0", "2"), ("0", "0.1")
    return Workload(
        name="sweep",
        run_argv=["run", "--scenarios", str(SCENARIO_PACK),
                  "--user-policy", f"scripted:{SCRIPTS / 'apartment_user.yaml'}",
                  "--assistant-policy", f"scripted:{SCRIPTS / 'apartment_assistant.yaml'}",
                  "--seed", str(seed), "--noise-rate", ",".join(noise),
                  "--failure-prob", ",".join(fail), "--jobs", "2"],
        runs=runs,
        episodes=len(scenarios) * len(noise) * len(fail) * runs,
        report=True,
        check_argvs=[["validate", "--scenarios", str(SCENARIO_PACK), "--seed", str(seed)]],
    )


# ----------------------------------------------------------------------
# long_noisy

LONG_TURNS = 200


def long_noisy(inputs: Path, seed: int) -> Workload:
    rng = random.Random(f"long_noisy:{seed}")
    scenario = inputs / "long_noisy.yaml"
    scenario.write_text(f"""schema_version: 1
id: long_noisy
title: A long, noisy session in which nobody writes
apps: [EmailApp, MessagingApp]
start_time: "2025-05-12 08"
max_turns: {LONG_TURNS}
tick_seconds: 60
user_goal: Skim the inbox now and then; change nothing.
assistant_instructions: Watch and read only; there is nothing to propose.
init:
  MessagingApp:
    conversations:
      - {{title: Sam, participants: [sam, user], messages: []}}
validation:
  - {{kind: action_forbidden, goal: assistant-wrote-nothing, tool: EmailApp__send_email, actor: assistant}}
  - {{kind: db_predicate, goal: nothing-sent, app: EmailApp, store: emails, where: {{folder: sent}}, check: count, op: "==", value: 0}}
  - {{kind: db_predicate, goal: inbox-past-999, app: EmailApp, store: emails, where: {{folder: inbox}}, check: count, op: ">", value: 999}}
""", "utf-8")

    # The user browses read-only, one action a turn, for the whole episode.
    user = []
    while len(user) < LONG_TURNS:
        user += [
            {"action": "SystemApp__open_app", "action_input": {"app_name": "EmailApp"}},
            {"action": "EmailApp__list_emails",
             "action_input": {"offset": rng.randrange(0, 200), "limit": 10}},
            {"action": "EmailApp__search_emails", "action_input": {"query": rng.choice(WORDS)}},
            {"action": "SystemApp__go_home"},
        ]
    _dump_steps(inputs / "long_user.yaml", user[:LONG_TURNS])

    # The assistant never proposes: one read in observe mode, then it waits.
    # The kinds of read rotate, so every seed does about the same work.
    assistant = []
    for turn in range(1, LONG_TURNS + 1):
        kind = turn % 4
        if kind == 0:
            step = {"action": "EmailApp__list_emails",
                    "action_input": {"folder": "inbox", "offset": rng.randrange(0, 500)}}
        elif kind == 1:
            step = {"action": "EmailApp__search_emails",
                    "action_input": {"query": rng.choice(WORDS)}}
        elif kind == 2 and turn > 5:
            # About ten mails arrive a minute, so the first few ids exist by now.
            step = {"action": "EmailApp__read_email",
                    "action_input": {"email_id": _email_id(rng.randint(1, 9))}}
        else:
            step = {"action": "MessagingApp__list_conversations"}
        assistant += [step, {"action": "AgentUserInterface__wait"}]
    _dump_steps(inputs / "long_assistant.yaml", assistant)

    return Workload(
        name="long_noisy",
        run_argv=["run", "--scenarios", str(scenario),
                  "--user-policy", f"scripted:{inputs / 'long_user.yaml'}",
                  "--assistant-policy", f"scripted:{inputs / 'long_assistant.yaml'}",
                  "--seed", str(seed), "--noise-rate", "20", "--failure-prob", "0.1",
                  "--jobs", "1"],
        runs=4,
        episodes=4,
        required_goals=("assistant-wrote-nothing", "nothing-sent", "inbox-past-999"),
    )


# ----------------------------------------------------------------------
# store_10k

STORE_RECORDS = 10_000
STORE_TURNS = 10            # two turns per task: propose, then accept and execute


def store_10k(inputs: Path, seed: int) -> Workload:
    rng = random.Random(f"store_10k:{seed}")
    scenario = inputs / "store_10k.yaml"
    lines = [f"""schema_version: 1
id: store_10k
title: Housekeeping in a mailbox of {STORE_RECORDS} emails
apps: [EmailApp]
start_time: "2025-04-07 09"
max_turns: {STORE_TURNS}
tick_seconds: 60
user_goal: Let the assistant tidy the mailbox; accept what it proposes.
assistant_instructions: File and answer mail on request.
validation:
  - {{kind: db_predicate, goal: bad-move-rolled-back, app: EmailApp, store: emails, where: {{folder: {BAD_FOLDER}}}, check: count, op: "==", value: 0}}
  - {{kind: db_predicate, goal: replies-sent, app: EmailApp, store: emails, where: {{folder: sent}}, check: count, op: ">=", value: 1}}
init:
  EmailApp:
    emails:"""]
    # Compact flow-style records without ids: Store.next_id numbers them.
    for _ in range(STORE_RECORDS):
        lines.append(
            f"      - {{folder: inbox, sender: s{rng.randrange(500)}@mail.example, "
            f"subject: {rng.choice(WORDS)} {rng.randrange(10000)}, "
            f"body: {rng.choice(WORDS)} {rng.choice(WORDS)}}}")
    scenario.write_text("\n".join(lines) + "\n", "utf-8")

    execute = "mode:execute"
    user, assistant = [], []
    for task in range(STORE_TURNS // 2):
        user.append({"action": "AgentUserInterface__accept_proposal", "action_input": {},
                     "when": "proposal_pending"})
        moved, bad = rng.randint(1, STORE_RECORDS), rng.randint(1, STORE_RECORDS)
        to = f"s{rng.randrange(500)}@mail.example"
        steps = [
            ("EmailApp__list_emails", {"folder": "inbox", "offset": rng.randrange(5000)}),
            ("EmailApp__send_email", {"recipients": [to], "subject": f"Re: task {task}",
                                      "body": "Noted, thanks."}),
            ("EmailApp__search_emails", {"query": rng.choice(WORDS)}),
            ("EmailApp__move_email", {"email_id": _email_id(moved), "folder": "archive"}),
            ("EmailApp__read_email", {"email_id": _email_id(moved)}),
            ("EmailApp__move_email", {"email_id": _email_id(bad), "folder": BAD_FOLDER}),
            ("EmailApp__send_email", {"recipients": [to], "subject": f"Filed {task}",
                                      "body": "Filed as asked."}),
            ("AgentUserInterface__send_message_to_user", {"message": f"Task {task} done."}),
        ]
        assistant.append({"action": "AgentUserInterface__propose_task",
                          "action_input": {"task": f"Tidy batch {task} of the mailbox."},
                          "when": "mode:observe"})
        assistant += [{"action": a, "action_input": i, "when": execute} for a, i in steps]
    _dump_steps(inputs / "store_user.yaml", user)
    _dump_steps(inputs / "store_assistant.yaml", assistant)

    return Workload(
        name="store_10k",
        run_argv=["run", "--scenarios", str(scenario),
                  "--user-policy", f"scripted:{inputs / 'store_user.yaml'}",
                  "--assistant-policy", f"scripted:{inputs / 'store_assistant.yaml'}",
                  "--seed", str(seed), "--noise-rate", "0", "--failure-prob", "0.1",
                  "--jobs", "1"],
        runs=1,
        episodes=1,
        required_goals=("bad-move-rolled-back",),
    )


# ----------------------------------------------------------------------
# llm_fake

def llm_fake(inputs: Path, seed: int) -> Workload:
    runs = 8
    config = inputs / "llm.yaml"
    spec = f"llm:{config}"
    return Workload(
        name="llm_fake",
        run_argv=["run", "--scenarios", str(SCENARIO_PACK / "apartment_budget.yaml"),
                  "--user-policy", spec, "--assistant-policy", spec,
                  "--seed", str(seed), "--noise-rate", "0", "--failure-prob", "0",
                  "--jobs", "2"],
        runs=runs,
        episodes=runs,
        all_success=True,
        llm_config=config,
    )


WORKLOADS = {"sweep": sweep, "long_noisy": long_noisy,
             "store_10k": store_10k, "llm_fake": llm_fake}
