"""App simulator registry."""

from __future__ import annotations

from ..fsm import AppStateMachine
from . import (
    apartment,
    cab,
    calendar_app,
    contacts,
    email,
    filesystem,
    messaging,
    note,
    reminder,
    shopping,
)

BUILDERS = {
    "CabApp": cab.build,
    "NoteApp": note.build,
    "EmailApp": email.build,
    "CalendarApp": calendar_app.build,
    "ContactsApp": contacts.build,
    "ReminderApp": reminder.build,
    "ShoppingApp": shopping.build,
    "MessagingApp": messaging.build,
    "ApartmentApp": apartment.build,
    "FileSystemApp": filesystem.build,
}

DOMAIN_APPS = tuple(a for a in BUILDERS if a != "FileSystemApp")


def build_app(app_id: str) -> AppStateMachine:
    if app_id not in BUILDERS:
        raise KeyError(f"unknown app {app_id!r}")
    return BUILDERS[app_id]()
